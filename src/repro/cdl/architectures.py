"""The paper's network architectures (Tables I and II).

Two baselines are reproduced exactly at the geometry level:

* ``mnist_2c`` -- Table I, 6 layers:
  28x28 -> C1(5x5, 6 maps) -> P1(2x2) -> C2(5x5, 12 maps) -> P2(2x2) -> FC(10),
  with the CDL tap O1 after P1.
* ``mnist_3c`` -- Table II, 8 layers:
  28x28 -> C1(3x3, 3 maps) -> P1(2x2) -> C2(4x4, 6 maps) -> P2(2x2)
  -> C3(3x3, 9 maps) -> P3(1x1) -> FC(10), with taps O1 after P1 and O2
  after P2.  (Table II lists P3 at the same 3x3 geometry as C3, i.e. a
  unit pooling window.)  Its O1 head averages P1 over 2x2 windows before
  its linear map (see :attr:`ArchitectureSpec.head_pools`).

Two training recipes are offered: ``"paper"`` (sigmoid activations + MSE,
the convolutional backprop of [19]) and ``"modern"`` (ReLU + softmax
cross-entropy), which trains an order of magnitude faster on this
substrate while leaving the architecture untouched.  Every experiment
defaults to ``"modern"``; the recipe is a knob, not a change of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D
from repro.nn.network import Network
from repro.utils.rng import ensure_rng

_RECIPES = ("paper", "modern")


def _recipe_activations(recipe: str) -> tuple[str, str]:
    """(hidden activation, output activation) for a recipe."""
    if recipe == "paper":
        return "sigmoid", "sigmoid"
    if recipe == "modern":
        return "relu", "softmax"
    raise ConfigurationError(f"recipe must be one of {_RECIPES}, got {recipe!r}")


def recipe_loss(recipe: str) -> str:
    """The loss name matching a recipe's output activation."""
    return "mse" if recipe == "paper" else "softmax_cross_entropy"


@dataclass(frozen=True)
class ArchitectureSpec:
    """A named baseline + its CDL attach points.

    Attributes
    ----------
    name:
        Identifier (``mnist_2c``, ``mnist_3c``, ...).
    table:
        Which paper table defines it.
    attach_indices:
        Baseline layer indices after which the paper attaches linear
        classifiers (pooling-layer outputs).
    all_tap_indices:
        Every pooling-layer index -- used by the Fig. 7 / Fig. 9 stage
        sweeps, which add classifiers one at a time.
    builder:
        ``builder(rng, recipe)`` returning the baseline :class:`Network`.
    head_pools:
        Average-pool window of the linear classifier at each tap, keyed by
        tap index; a tap not listed feeds its classifier unpooled (see
        :class:`~repro.cdl.linear_classifier.LinearClassifier`'s
        ``pool_window``).
    """

    name: str
    table: str
    attach_indices: tuple[int, ...]
    all_tap_indices: tuple[int, ...]
    builder: object = field(repr=False)
    description: str = ""
    head_pools: dict[int, int] = field(default_factory=dict, hash=False)

    def build(self, rng=None, recipe: str = "modern") -> Network:
        return self.builder(rng, recipe)


def _build_mnist_2c(rng, recipe: str = "modern") -> Network:
    hidden, output = _recipe_activations(recipe)
    rng = ensure_rng(rng)
    return Network(
        [
            Conv2D(6, 5, activation=hidden, name="C1"),
            MaxPool2D(2, name="P1"),
            Conv2D(12, 5, activation=hidden, name="C2"),
            MaxPool2D(2, name="P2"),
            Flatten(name="flatten"),
            Dense(10, activation=output, name="FC"),
        ],
        input_shape=(1, 28, 28),
        rng=rng,
    )


def _build_mnist_3c(rng, recipe: str = "modern") -> Network:
    hidden, output = _recipe_activations(recipe)
    rng = ensure_rng(rng)
    return Network(
        [
            Conv2D(3, 3, activation=hidden, name="C1"),
            MaxPool2D(2, name="P1"),
            Conv2D(6, 4, activation=hidden, name="C2"),
            MaxPool2D(2, name="P2"),
            Conv2D(9, 3, activation=hidden, name="C3"),
            MaxPool2D(1, name="P3"),
            Flatten(name="flatten"),
            Dense(10, activation=output, name="FC"),
        ],
        input_shape=(1, 28, 28),
        rng=rng,
    )


MNIST_2C = ArchitectureSpec(
    name="mnist_2c",
    table="Table I (6-layer DLN)",
    attach_indices=(1,),  # after P1
    all_tap_indices=(1, 3),  # P1, P2
    builder=_build_mnist_2c,
    description="I->C1(6@5x5)->P1->C2(12@5x5)->P2->FC(10); O1 after P1",
)

MNIST_3C = ArchitectureSpec(
    name="mnist_3c",
    table="Table II (8-layer DLN)",
    attach_indices=(1, 3),  # after P1 and P2
    all_tap_indices=(1, 3, 5),  # P1, P2, P3
    builder=_build_mnist_3c,
    description="I->C1(3@3x3)->P1->C2(6@4x4)->P2->C3(9@3x3)->P3->FC(10); O1, O2",
    # O1 reads P1's 3x13x13 = 507 features; pooled 2x2 it maps 108 of them,
    # which cuts the head every input pays from 10,189 to 2,641 OPS (9.1%
    # to 2.4% of the baseline) at no measured accuracy cost (the
    # ablation_o1_head_pool bench).
    head_pools={1: 2},
)

#: Registry of reproducible architectures.
ARCHITECTURES: dict[str, ArchitectureSpec] = {
    spec.name: spec for spec in (MNIST_2C, MNIST_3C)
}


def build_architecture(
    name: str, rng=None, recipe: str = "modern"
) -> tuple[Network, ArchitectureSpec]:
    """Build a registered architecture; returns ``(network, spec)``."""
    try:
        spec = ARCHITECTURES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown architecture {name!r}; available: {sorted(ARCHITECTURES)}"
        ) from None
    return spec.build(rng, recipe), spec


def mnist_2c(rng=None, recipe: str = "modern") -> tuple[Network, ArchitectureSpec]:
    """Table I baseline and spec."""
    return build_architecture("mnist_2c", rng, recipe)


def mnist_3c(rng=None, recipe: str = "modern") -> tuple[Network, ArchitectureSpec]:
    """Table II baseline and spec."""
    return build_architecture("mnist_3c", rng, recipe)


def mnist_3c_all_taps(rng=None, recipe: str = "modern") -> tuple[Network, tuple[int, ...]]:
    """Table II baseline with taps at every pooling layer (O1, O2, O3),
    as used by the Fig. 7 accuracy study and the Fig. 9 stage sweep."""
    net, spec = mnist_3c(rng, recipe)
    return net, spec.all_tap_indices
