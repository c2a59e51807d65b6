"""Elementwise activation functions with analytic derivatives.

Each activation is an object with ``forward(x)`` and ``backward(x, y,
grad)`` where ``x`` is the pre-activation input saved by the caller, ``y``
is the forward output, and ``grad`` is the upstream gradient.  Passing
both ``x`` and ``y`` lets each function use whichever is cheaper.  Both
networks use ReLU; :func:`get_activation` also accepts any
:class:`ActivationFunction` instance.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError


class ActivationFunction:
    """Base class for elementwise activations."""

    name = "base"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ReLU(ActivationFunction):
    """Rectified linear unit: ``max(0, x)``."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, x: np.ndarray, y: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (x > 0.0)


_REGISTRY = {
    "relu": ReLU,
}


def get_activation(name_or_fn) -> ActivationFunction:
    """Resolve a string name or pass through an :class:`ActivationFunction`."""
    if isinstance(name_or_fn, ActivationFunction):
        return name_or_fn
    try:
        return _REGISTRY[str(name_or_fn).lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown activation {name_or_fn!r}; choose from {sorted(_REGISTRY)}"
        ) from None
