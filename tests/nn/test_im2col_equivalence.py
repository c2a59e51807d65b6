"""Bit-identity battery: the gather ``im2col`` against the slice-copy loop.

``im2col`` builds its matrix with one ``np.take`` through a cached table
of flat pixel offsets.  The reference below is the original formulation:
one strided slice copy per kernel offset into a ``(n, c, kh, kw, oh,
ow)`` buffer, then a transpose-reshape.  Both must agree *bitwise* —
signed zeros and NaN included — on random shapes, strides and paddings,
float64 and float32, and non-contiguous inputs (the NCHW view of NHWC
memory that ``Conv2D`` hands the next layer, reversed and sliced
batches).  They must also agree in memory layout, because BLAS rounds
differently per operand layout: a ``Conv2D`` running on either must give
bitwise-equal outputs, weight/bias gradients and input gradients.

``HYPOTHESIS_PROFILE=smoke`` shrinks the example count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import conv as conv_module
from repro.nn.layers.conv import Conv2D, _window_index, im2col
from tests.nn.helpers import NormalInit

MAX_EXAMPLES = 25 if os.environ.get("HYPOTHESIS_PROFILE") == "smoke" else 200


# -- reference: one slice copy per kernel offset, then a transpose-reshape ----
def reference_im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_max:stride, j:j_max:stride]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * oh * ow, c * kh * kw)


@contextmanager
def reference_kernel():
    """Run ``Conv2D`` on :func:`reference_im2col` inside the block."""
    original = conv_module.im2col
    conv_module.im2col = reference_im2col
    try:
        yield
    finally:
        conv_module.im2col = original


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint8)


def assert_same_array(a: np.ndarray, b: np.ndarray) -> None:
    """Same shape, dtype, memory layout and bytes."""
    assert a.shape == b.shape
    assert a.dtype == b.dtype
    assert a.strides == b.strides
    assert a.flags.c_contiguous == b.flags.c_contiguous
    assert a.flags.f_contiguous == b.flags.f_contiguous
    np.testing.assert_array_equal(_bits(a), _bits(b))


# -- inputs ----------------------------------------------------------------------
#: Value palettes: continuous, signed zeros, and a NaN-laced mix.
_PALETTES = {
    "normal": None,
    "zeros": np.array([0.0, -0.0]),
    "nan": np.array([np.nan, 0.0, -0.0, 1.0, -2.0]),
}


def _values(rng: np.random.Generator, palette: str, shape, dtype) -> np.ndarray:
    choices = _PALETTES[palette]
    values = rng.normal(size=shape) if choices is None else rng.choice(choices, size=shape)
    return values.astype(dtype)


def _layout(x_nhwc: np.ndarray, layout: str) -> np.ndarray:
    """NCHW view of an ``(2n, h, w, c)`` block in the requested memory order."""
    if layout == "contiguous":
        return np.ascontiguousarray(x_nhwc.transpose(0, 3, 1, 2)[::2])
    if layout == "transposed":  # conv-output-like: channels fastest
        return x_nhwc[::2].transpose(0, 3, 1, 2)
    if layout == "sliced":  # every other image of a contiguous batch
        return np.ascontiguousarray(x_nhwc.transpose(0, 3, 1, 2))[1::2]
    # Negative strides on both spatial axes.
    return x_nhwc[::2].transpose(0, 3, 1, 2)[:, :, ::-1, ::-1]


cases = st.fixed_dictionaries(
    {
        "n": st.integers(1, 3),
        "c": st.integers(1, 3),
        "k": st.integers(1, 4),
        "stride": st.integers(1, 3),
        "padding": st.integers(0, 2),
        "extra_h": st.integers(0, 6),
        "extra_w": st.integers(0, 6),
        "filters": st.integers(1, 4),
        "dtype": st.sampled_from(["float64", "float32"]),
        "palette": st.sampled_from(sorted(_PALETTES)),
        "layout": st.sampled_from(["contiguous", "transposed", "sliced", "reversed"]),
        "seed": st.integers(0, 2**31 - 1),
    }
)


def _draw_input(case):
    k, p = case["k"], case["padding"]
    # Smallest input whose padded dims still hold one window.
    h = max(1, k - 2 * p) + case["extra_h"]
    w = max(1, k - 2 * p) + case["extra_w"]
    rng = np.random.default_rng(case["seed"])
    block = _values(rng, case["palette"], (2 * case["n"], h, w, case["c"]), case["dtype"])
    return rng, _layout(block, case["layout"])


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=cases)
def test_im2col_bit_identical(case):
    _, x = _draw_input(case)
    k, s, p = case["k"], case["stride"], case["padding"]
    assert_same_array(im2col(x, k, k, s, p), reference_im2col(x, k, k, s, p))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=cases)
def test_conv2d_forward_and_backward_bit_identical(case):
    rng, x = _draw_input(case)
    k, s, p = case["k"], case["stride"], case["padding"]
    layers = []
    for _ in range(2):
        layer = Conv2D(case["filters"], k, stride=s, padding=p, bias_init=NormalInit())
        layer.build(x.shape[1:], rng=case["seed"])
        layers.append(layer)
    fast, ref = layers

    out = fast.forward(x, training=True)
    with reference_kernel():
        ref_out = ref.forward(x, training=True)
    assert_same_array(out, ref_out)

    grad = _values(rng, "normal", out.shape, np.float64)
    dx = fast.backward(grad)
    with reference_kernel():
        ref_dx = ref.backward(grad)
    assert_same_array(dx, ref_dx)
    for name in ("W", "b"):
        assert_same_array(fast.grads[name], ref.grads[name])


#: ``(c, h, w, k, padding)`` of every conv layer in ``build_lenet`` and
#: ``build_vggnet`` at their default input shapes.
_SHIPPED_CONVS = [
    (1, 12, 12, 5, 0), (8, 4, 4, 3, 0),
    (1, 16, 16, 3, 1), (8, 16, 16, 3, 1), (8, 8, 8, 3, 1),
    (16, 8, 8, 3, 1), (16, 4, 4, 3, 1),
]


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("c, h, w, k, padding", _SHIPPED_CONVS)
def test_shipped_conv_shapes_bit_identical(n, c, h, w, k, padding):
    """The shipped networks' conv shapes, on a conv-output-like layout,
    including the single-image batch whose matrix is column-major."""
    rng = np.random.default_rng(n * c * h)
    x = rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    assert_same_array(im2col(x, k, k, 1, padding), reference_im2col(x, k, k, 1, padding))


def test_window_index_is_cached_and_read_only():
    index = _window_index(2, 6, 7, 3, 2, 2)
    assert index is _window_index(2, 6, 7, 3, 2, 2)
    assert index.dtype == np.intp
    assert index.shape == (((6 - 3) // 2 + 1) * ((7 - 2) // 2 + 1), 2 * 3 * 2)
    assert not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 1


def test_window_index_rows_list_window_offsets():
    """Row ``r`` holds the ``(c, kh, kw)``-ordered offsets of window ``r``."""
    c, h, w, k, s = 2, 5, 6, 2, 2
    image = np.arange(c * h * w).reshape(c, h, w)
    index = _window_index(c, h, w, k, k, s)
    ow = (w - k) // s + 1
    for r, row in enumerate(index):
        i, j = divmod(r, ow)
        window = image[:, i * s : i * s + k, j * s : j * s + k]
        np.testing.assert_array_equal(row, window.ravel())
