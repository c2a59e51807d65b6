"""Spatial pooling over square, tiling windows (NCHW layout).

A ``k``-pool reads ``k x k`` windows at stride ``k``; rows and columns
past the last whole window take no part.  Because windows tile, every
input pixel belongs to at most one window, and each kernel is ``k*k``
strided slices of the input, one per window offset ``(di, dj)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.base import Layer
from repro.rng import SeedLike


class _Pool2D(Layer):
    """Shared shape logic for pooling with square, tiling windows."""

    _transient = ("_x", "_x_shape", "_out")

    def __init__(self, pool_size: int = 2) -> None:
        super().__init__()
        if pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = int(pool_size)

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"pooling expects (channels, h, w), got {input_shape}")
        c, h, w = input_shape
        if h < self.pool_size or w < self.pool_size:
            raise ShapeError(f"pool window {self.pool_size} larger than input {input_shape}")
        return super().build(input_shape, rng)

    def output_shape(self) -> Tuple[int, ...]:
        assert self.input_shape is not None
        c, h, w = self.input_shape
        return (c, h // self.pool_size, w // self.pool_size)

    def _offset(self, di: int, dj: int) -> tuple:
        """Index of window offset ``(di, dj)`` of every window at once."""
        k, (_, oh, ow) = self.pool_size, self.output_shape()
        return np.s_[:, :, di : di + k * oh : k, dj : dj + k * ow : k]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(pool_size={self.pool_size})"


class MaxPool2D(_Pool2D):
    """Max pooling; backward routes the gradient to each window argmax.

    Forward is an elementwise running maximum over the ``k*k`` offset
    slices, which never copies the input into window-major order.  Max
    is exact, so the values equal a per-window reduction bit for bit
    (save the sign of a zero maximum over windows holding both signed
    zeros, which numpy's own reduction leaves to SIMD lane order).

    Backward finds each window's first-index argmax from the kept input
    and output, so it also works after a ``training=False`` forward.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x
        k = self.pool_size
        out = x[self._offset(0, 0)].copy()
        for di in range(k):
            for dj in range(k):
                if di or dj:
                    np.maximum(out, x[self._offset(di, dj)], out=out)
        self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, out, k = self._x, self._out, self.pool_size
        dx = np.zeros(x.shape, dtype=grad.dtype)
        # The first offset equal to the maximum (or NaN, which only a
        # NaN maximum can hold) wins, as in argmax; ``+ 0.0`` lands a
        # -0.0 gradient as +0.0, as a sum into the zero buffer would.
        routed = grad + 0.0
        nan = np.isnan(out).any()
        unrouted = np.ones(out.shape, dtype=bool)
        for offset in range(k * k):
            at = self._offset(*divmod(offset, k))
            hit = x[at] == out
            if nan:
                hit |= np.isnan(x[at])
            hit &= unrouted
            if offset < k * k - 1:
                unrouted ^= hit
            np.copyto(dx[at], routed, where=hit)
        return dx


class AvgPool2D(_Pool2D):
    """Average pooling; backward spreads the gradient uniformly.

    No shipped network pools by average.  The class stays because the
    perf harness's span table (``benchmarks/perf/layers.py``) names it.
    """

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        k, (c, oh, ow) = self.pool_size, self.output_shape()
        windows = x[:, :, : k * oh, : k * ow].reshape(len(x), c, oh, k, ow, k)
        return windows.mean(axis=(3, 5))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        k = self.pool_size
        dx = np.zeros(self._x_shape, dtype=grad.dtype)
        share = grad / (k * k)
        for offset in range(k * k):
            dx[self._offset(*divmod(offset, k))] = share
        return dx
