"""Network factories for the two evaluation roles of the paper.

The paper evaluates LeNet-5 (5 layers: 2 conv + 3 FC) on Cifar10 and
VGG-16 (13 conv + 3 FC) on Cifar100.  Running networks of that size on
one CPU core in numpy is not feasible, so the factories build
*scaled-down* networks that preserve the properties the experiments
need:

* :func:`build_lenet` — a small conv+FC network (conv, pool, conv,
  FC, FC head) in the LeNet role, sized for the 12x12 glyph-digit task;
* :func:`build_vggnet` — a deeper all-3x3-conv network with more conv
  than FC capacity, in the VGG role for the 16x16 textured-shapes task
  (crucial for Fig. 11's conv-vs-FC aging contrast);
* :func:`build_mlp` — a plain MLP for toy datasets and quick tests.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.nn import (
    Activation,
    Adam,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Sequential,
)
from repro.rng import SeedLike


def build_mlp(
    input_dim: int,
    n_classes: int,
    hidden: Sequence[int] = (32, 16),
    lr: float = 0.01,
    seed: SeedLike = None,
) -> Sequential:
    """Fully-connected classifier for flat inputs."""
    if input_dim < 1 or n_classes < 2:
        raise ConfigurationError("need input_dim >= 1 and n_classes >= 2")
    layers = []
    for width in hidden:
        layers += [Dense(width), Activation("relu")]
    layers += [Dense(n_classes)]
    model = Sequential(layers, optimizer=Adam(lr), seed=seed)
    return model.build((input_dim,))


def build_lenet(
    input_shape: Tuple[int, int, int] = (1, 12, 12),
    n_classes: int = 10,
    lr: float = 0.002,
    seed: SeedLike = None,
) -> Sequential:
    """LeNet-role network: 2 conv + 2 FC layers (+ head).

    For the default 12x12 input: conv5x5 (8 maps) → pool → conv3x3
    (16 maps) → FC 64 → FC ``n_classes``.  The 5x5 first-layer kernels
    follow LeNet-5 and matter for the hardware experiments: a larger
    first-layer device matrix gives per-weight redundancy, so single
    noisy devices do not dominate the mapped accuracy.
    """
    model = Sequential(
        [
            Conv2D(8, 5),
            Activation("relu"),
            MaxPool2D(2),
            Conv2D(16, 3),
            Activation("relu"),
            Flatten(),
            Dense(64),
            Activation("relu"),
            Dense(n_classes),
        ],
        optimizer=Adam(lr),
        seed=seed,
    )
    return model.build(input_shape)


def build_vggnet(
    input_shape: Tuple[int, int, int] = (1, 16, 16),
    n_classes: int = 20,
    width: int = 8,
    lr: float = 0.002,
    seed: SeedLike = None,
) -> Sequential:
    """VGG-role network: five 3x3 conv layers in three stages + 2 FC.

    Stage widths ``(width, 2*width, 4*width)`` with 2x2 max pooling
    between stages, mirroring VGG's doubling pattern.  Most parameters
    and most programming traffic live in the conv layers, which is what
    produces the stronger conv-layer aging of Fig. 11.
    """
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    model = Sequential(
        [
            Conv2D(width, 3, padding=1),
            Activation("relu"),
            Conv2D(width, 3, padding=1),
            Activation("relu"),
            MaxPool2D(2),
            Conv2D(2 * width, 3, padding=1),
            Activation("relu"),
            Conv2D(2 * width, 3, padding=1),
            Activation("relu"),
            MaxPool2D(2),
            Conv2D(4 * width, 3, padding=1),
            Activation("relu"),
            MaxPool2D(2),
            Flatten(),
            Dense(48),
            Activation("relu"),
            Dense(n_classes),
        ],
        optimizer=Adam(lr),
        seed=seed,
    )
    return model.build(input_shape)
