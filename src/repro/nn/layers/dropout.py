"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, ensure_rng
from repro.nn.layers.base import Layer


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    Activations are scaled by ``1/keep`` at train time so inference needs
    no rescaling — important here because inference runs on the simulated
    crossbar, which must see the same effective weights as software.
    The mask is transient; ``_rng`` is state and is copied.
    """

    _transient = ("_mask",)

    def __init__(self, rate: float = 0.5, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = ensure_rng(seed)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad
        return grad * self._mask

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Dropout(rate={self.rate})"
