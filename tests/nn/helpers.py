"""Test-only NN parts that neither shipped network uses.

Both networks use ReLU and zero biases, so ``repro.nn`` registers no
other activation and no random bias initializer.  Finite-difference
gradient checks want a kink-free nonlinearity, and the bit-identity
batteries want non-zero biases; the tests bring their own parts and
hand instances to ``Activation`` and ``bias_init``.
"""

from typing import Sequence

import numpy as np

from repro.nn.activations import ActivationFunction
from repro.nn.initializers import Initializer
from repro.rng import SeedLike, ensure_rng


class Tanh(ActivationFunction):
    """Hyperbolic tangent; differentiates through its output."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - y * y)


class NormalInit(Initializer):
    """Gaussian init, ``N(0, 0.01^2)``."""

    def __call__(self, shape: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        return ensure_rng(rng).normal(0.0, 0.01, size=shape)
