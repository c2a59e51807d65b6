"""Test-only NN parts that neither shipped network uses.

Both networks use ReLU and zero biases, so ``repro.nn`` registers no
other activation and no random bias initializer.  Finite-difference
gradient checks want a kink-free nonlinearity, and the bit-identity
batteries want non-zero biases; the tests hand their own activation to
``Activation`` and overwrite a built layer's biases.

The finite-difference gradient checker lives here too: it verifies
that every layer's analytic backward pass matches a central-difference
approximation, and nothing outside the tests calls it.
"""

from typing import Dict, Tuple

import numpy as np

from repro.nn.activations import ActivationFunction
from repro.rng import SeedLike


class Tanh(ActivationFunction):
    """Hyperbolic tangent; differentiates through its output."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - y * y)


def randomize_bias(layer, seed: SeedLike) -> None:
    """Overwrite a built layer's biases with ``N(0, 0.01^2)`` draws."""
    bias = layer.params["b"]
    bias[...] = np.random.default_rng(seed).normal(0.0, 0.01, size=bias.shape)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar ``f`` w.r.t. array ``x``.

    ``f`` takes no arguments and reads ``x`` by reference; ``x`` is
    perturbed in place and restored.
    """
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f()
        x[idx] = orig - eps
        f_minus = f()
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
        it.iternext()
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error between two gradient arrays."""
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_gradients(
    model, x: np.ndarray, y: np.ndarray, eps: float = 1e-6
) -> Dict[Tuple[int, str], float]:
    """Compare analytic and numerical gradients for every parameter.

    Returns ``{(layer_index, param_name): max_relative_error}``.  The
    model's cost (data loss + regularization) is used, so this also
    validates the skewed-regularizer gradient.
    """
    cost = model.compute_gradients(x, y)
    assert np.isfinite(cost)
    analytic = {
        (i, name): layer.grads[name].copy()
        for i, layer in enumerate(model.layers)
        for name in layer.params
    }
    errors: Dict[Tuple[int, str], float] = {}
    for i, layer in enumerate(model.layers):
        for name, param in layer.params.items():

            def f() -> float:
                pred = model.forward(x, training=True)
                return model.loss.value(pred, y) + model.regularization_penalty()

            num = numerical_gradient(f, param, eps=eps)
            errors[(i, name)] = relative_error(analytic[(i, name)], num)
    return errors
