"""2-D convolution layer via im2col.

Data layout is NCHW: ``(batch, channels, height, width)``.  Kernels are
``(out_ch, in_ch, kh, kw)``.  im2col converts each convolution into one
GEMM, which is the fastest arrangement for numpy on a single core and is
also the arrangement that maps directly onto crossbar tiles: each kernel
becomes one column of the (unrolled) weight matrix, so conv layers are
mapped to hardware as ``(in_ch*kh*kw, out_ch)`` matrices.

im2col is one ``np.take`` gather through a cached, read-only table of
flat pixel offsets (one row per output position, ``(c, kh, kw)``
order), so each forward pays a single pass over the output matrix.  The
matrix equals, value for value and in memory layout, what a slice-copy
per kernel offset would build; the GEMMs it feeds therefore round
identically.

An input reused over a run pays that pass once: :meth:`Conv2D.unfold`
returns the matrix as a read-only ``(n, oh*ow, c*kh*kw)`` array, and
:meth:`Conv2D.forward` takes it, or any row slice of it, in place of
the images, which it unfolds itself.

The GEMM yields channels-last rows; :meth:`Conv2D.forward` copies them
once into a C-contiguous NCHW array.  Every layer after it (activation,
pool, flatten) then sees one memory layout, forward and backward, so no
elementwise pass mixes a transposed view with a contiguous gradient.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.initializers import he_normal
from repro.nn.layers.base import ParamLayer
from repro.rng import SeedLike, ensure_rng


@lru_cache(maxsize=16)
def _window_index(c: int, h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Offsets into a flattened ``(c, h, w)`` image read by each window.

    ``h, w`` are the padded dims.  Row ``r`` of the returned read-only
    ``(oh*ow, c*kh*kw)`` table lists, in ``(c, kh, kw)`` order, the flat
    offsets output position ``r`` (row-major over ``oh, ow``) reads.
    """
    oh, ow = h - kh + 1, w - kw + 1
    window = (
        np.arange(c)[:, None, None] * (h * w)
        + np.arange(kh)[None, :, None] * w
        + np.arange(kw)[None, None, :]
    ).ravel()
    origin = (np.arange(oh)[:, None] * w + np.arange(ow)[None, :]).ravel()
    index = (origin[:, None] + window[None, :]).astype(np.intp)
    index.setflags(write=False)
    return index


def im2col(x: np.ndarray, kh: int, kw: int, padding: int = 0) -> np.ndarray:
    """Unroll sliding windows of ``x`` (NCHW) into a 2-D matrix.

    Returns an array of shape ``(batch*oh*ow, c*kh*kw)`` where ``oh, ow``
    are the output spatial dims.  It is C-contiguous, except for a
    single image, where it is column-major (see below).
    """
    n, c, h, w = x.shape
    if padding > 0:
        padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        padded[:, :, padding : padding + h, padding : padding + w] = x
        x, h, w = padded, h + 2 * padding, w + 2 * padding
    index = _window_index(c, h, w, kh, kw)
    cols = np.take(x.reshape(n, c * h * w), index, axis=1).reshape(
        n * index.shape[0], index.shape[1]
    )
    if n == 1:
        # A single image's matrix is column-major: the layout of the
        # slice-copy reference, whose transpose-reshape is then a view.
        # BLAS rounds differently per operand layout, so the GEMMs on
        # ``cols`` depend on it.
        cols = np.asfortranarray(cols)
    return cols


def col2im(
    cols: np.ndarray, x_shape: Tuple[int, int, int, int], kh: int, kw: int, padding: int = 0
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add float64 columns back to NCHW.

    Via the transposed window table, each pixel sums its columns in
    ``(i, j)`` kernel-offset order from 0.0.  ``np.bincount`` sums in
    float64, which is the dtype every model runs in (``Sequential``
    casts its input).
    """
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    index = _window_index(c, hp, wp, kh, kw).T.ravel()
    images = cols.reshape(n, (hp - kh + 1) * (wp - kw + 1), c * kh * kw)
    sums = [np.bincount(index, image.T.ravel(), c * hp * wp) for image in images]
    x_padded = np.stack(sums).reshape(n, c, hp, wp)
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


class Conv2D(ParamLayer):
    """2-D convolution at stride 1 with symmetric zero padding."""

    _transient = ("_cols", "_x_shape")

    def __init__(self, filters: int, kernel_size: int, padding: int = 0) -> None:
        super().__init__()
        if filters < 1:
            raise ConfigurationError(f"filters must be >= 1, got {filters}")
        if kernel_size < 1:
            raise ConfigurationError(f"kernel_size must be >= 1, got {kernel_size}")
        if padding < 0:
            raise ConfigurationError(f"padding must be >= 0, got {padding}")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.padding = int(padding)
        self._cols: np.ndarray | None = None
        self._x_shape: Tuple[int, int, int, int] | None = None

    def build(self, input_shape: Tuple[int, ...], rng: SeedLike = None) -> Tuple[int, ...]:
        if len(input_shape) != 3:
            raise ShapeError(f"Conv2D expects (channels, h, w) input, got {input_shape}")
        c, h, w = input_shape
        k = self.kernel_size
        if h + 2 * self.padding < k or w + 2 * self.padding < k:
            raise ShapeError(
                f"kernel {k}x{k} larger than padded input {input_shape} "
                f"with padding {self.padding}"
            )
        if not self.built:
            kernel = he_normal((self.filters, c, k, k), ensure_rng(rng))
            self.add_param("W", kernel, regularize=True)
            self.add_param("b", np.zeros(self.filters))
        return super().build(input_shape, rng)

    def output_shape(self) -> Tuple[int, ...]:
        assert self.input_shape is not None
        c, h, w = self.input_shape
        k, p = self.kernel_size, self.padding
        return (self.filters, h + 2 * p - k + 1, w + 2 * p - k + 1)

    def unfold(self, x: np.ndarray) -> np.ndarray:
        """``im2col``'s matrix of images ``x``, read-only, ``(n, oh*ow, c*k*k)``.

        An unfolding (a 3-D input) is returned as given.
        """
        k, (_, oh, ow) = self.kernel_size, self.output_shape()
        unfolded = (oh * ow, self.input_shape[0] * k * k)
        if x.shape[1:] != (unfolded if x.ndim == 3 else self.input_shape):
            raise ShapeError(
                f"Conv2D built for input {self.input_shape} got batch of shape {x.shape}"
            )
        if x.ndim == 3:
            return x
        cols = im2col(x, k, k, self.padding).reshape(len(x), *unfolded)
        cols.setflags(write=False)
        return cols

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Convolve images ``x`` (NCHW) or an :meth:`unfold` of them."""
        x = self.unfold(x)
        n = x.shape[0]
        c, h, w = self.input_shape
        self._x_shape = (n, c, h, w)
        # im2col's layout (column-major for one image), so the GEMMs on
        # a row slice of an unfolding round as on the images.
        cols = x.reshape(n * x.shape[1], x.shape[2])
        cols = np.asfortranarray(cols) if n == 1 else np.ascontiguousarray(cols)
        self._cols = cols
        w_mat = self._params["W"].reshape(self.filters, -1)  # (out, c*k*k)
        out = cols @ w_mat.T
        out += self._params["b"]
        _, oh, ow = self.output_shape()
        out = out.reshape(n, oh, ow, self.filters).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out)

    def param_grads(self, grad: np.ndarray) -> None:
        self._weight_grads(grad)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        k = self.kernel_size
        dcols = self._weight_grads(grad) @ self._params["W"].reshape(self.filters, -1)
        return col2im(dcols, self._x_shape, k, k, self.padding)

    def _weight_grads(self, grad: np.ndarray) -> np.ndarray:
        assert self._cols is not None, "backward called before forward"
        grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, self.filters)
        self._grads["W"][...] = (grad_mat.T @ self._cols).reshape(self._params["W"].shape)
        self._grads["b"][...] = grad_mat.sum(axis=0)
        return grad_mat

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Conv2D(filters={self.filters}, kernel_size={self.kernel_size}, "
            f"padding={self.padding})"
        )
