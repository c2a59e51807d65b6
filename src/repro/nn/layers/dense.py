"""Fully-connected layer."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.initializers import glorot_uniform
from repro.nn.layers.base import ParamLayer
from repro.rng import SeedLike, ensure_rng


class Dense(ParamLayer):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``.

    This is the layer whose weight matrix maps one-to-one onto a
    memristor crossbar (one column of devices per output neuron), so its
    ``W`` is what :mod:`repro.mapping` programs into hardware.
    """

    _transient = ("_x",)

    def __init__(self, units: int) -> None:
        super().__init__()
        if units < 1:
            raise ConfigurationError(f"units must be >= 1, got {units}")
        self.units = int(units)
        self._x: np.ndarray | None = None

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) != 1:
            raise ShapeError(
                f"Dense expects flat input of shape (features,), got {input_shape}"
            )
        if not self.built:
            kernel = glorot_uniform((input_shape[0], self.units), ensure_rng(rng))
            self.add_param("W", kernel, regularize=True)
            self.add_param("b", np.zeros(self.units))
        return super().build(input_shape, rng)

    def output_shape(self) -> Tuple[int, ...]:
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        return x @ self._params["W"] + self._params["b"]

    def param_grads(self, grad: np.ndarray) -> None:
        assert self._x is not None, "backward called before forward"
        self._grads["W"][...] = self._x.T @ grad
        self._grads["b"][...] = grad.sum(axis=0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.param_grads(grad)
        return grad @ self._params["W"].T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dense(units={self.units})"
