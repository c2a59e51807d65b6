"""From-scratch neural-network training substrate.

The paper trains its networks with TensorFlow; this offline reproduction
implements the required subset of a deep-learning framework directly on
numpy: layers with explicit forward/backward passes, the cross-entropy
loss, optimizers, weight initializers and — the piece the paper
actually contributes — the **two-segment skewed regularizer** of
Eq. (8)–(10).  It carries what the two networks train with and no more.

Public surface::

    from repro.nn import (
        Sequential, Dense, Conv2D, MaxPool2D, Flatten,
        Activation, ReLU, SoftmaxCrossEntropy, SGD, Adam,
        L2Regularizer, SkewedL2Regularizer,
    )
"""

from repro.nn.activations import ReLU, get_activation
from repro.nn.initializers import (
    GlorotNormal,
    GlorotUniform,
    HeNormal,
    HeUniform,
    LeCunNormal,
    ZerosInit,
    get_initializer,
)
from repro.nn.layers.activation import Activation
from repro.nn.layers.base import Layer, ParamLayer
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.nn.layers.pool import MaxPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential, TrainingHistory
from repro.nn.optimizers import SGD, Adam, Optimizer
from repro.nn.regularizers import (
    L2Regularizer,
    Regularizer,
    SkewedL2Regularizer,
)

__all__ = [
    "Activation",
    "Adam",
    "Conv2D",
    "Dense",
    "Flatten",
    "GlorotNormal",
    "GlorotUniform",
    "HeNormal",
    "HeUniform",
    "L2Regularizer",
    "Layer",
    "LeCunNormal",
    "Loss",
    "MaxPool2D",
    "Optimizer",
    "ParamLayer",
    "ReLU",
    "Regularizer",
    "SGD",
    "Sequential",
    "SkewedL2Regularizer",
    "SoftmaxCrossEntropy",
    "TrainingHistory",
    "ZerosInit",
    "accuracy",
    "get_activation",
    "get_initializer",
]
