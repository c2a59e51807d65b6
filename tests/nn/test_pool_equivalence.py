"""Bit-identity battery: ``MaxPool2D`` against the windowed reference.

Pooling windows tile: a ``k``-pool reads ``k x k`` windows at stride
``k``.  The layer's forward is a running elementwise maximum over the
``k*k`` strided slices of the input, and its backward recovers the
window argmax from the kept input and output, landing the gradient with
one masked copy per window offset.  The reference below is the original
formulation: an ``as_strided`` window view reshaped to ``(..., k*k)``,
reduced with ``max``/``argmax``, and an ``add.at`` scatter of the
gradient.  Both must agree *bitwise* — signed zeros and NaN included —
on random shapes (rows and columns past the last window included),
tie-heavy values, contiguous, transposed and reversed inputs, and
backward must work after a ``training=False`` forward.

One documented exception: when a window's maximum is zero and the
window holds both ``+0.0`` and ``-0.0``, the sign numpy gives the
result depends on the order it folds the window, and its ``max``
reduction folds in SIMD-lane order that varies with window length and
CPU (on one AVX-512 host, length-9 windows take the sign of their
third element).  There the battery checks the value only.  The
gradient route is unaffected: ``argmax`` treats the two zeros as equal
and picks the first.

``HYPOTHESIS_PROFILE=smoke`` shrinks the example count.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers.pool import MaxPool2D

MAX_EXAMPLES = 25 if os.environ.get("HYPOTHESIS_PROFILE") == "smoke" else 200


# -- reference: the windowed argmax/max forward and add.at backward -----------
def _ref_windows(x: np.ndarray, k: int, s: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    strides = (
        x.strides[0],
        x.strides[1],
        x.strides[2] * s,
        x.strides[3] * s,
        x.strides[2],
        x.strides[3],
    )
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, k, k), strides=strides, writeable=False
    )


def reference_forward(x: np.ndarray, k: int, s: int):
    """``(output, argmax)`` of the original windowed max pool."""
    windows = _ref_windows(x, k, s)
    n, c, oh, ow = windows.shape[:4]
    flat = windows.reshape(n, c, oh, ow, k * k)
    return flat.max(axis=-1), flat.argmax(axis=-1)


def reference_backward(
    x_shape, argmax: np.ndarray, grad: np.ndarray, k: int, s: int
) -> np.ndarray:
    n, c, oh, ow = argmax.shape
    dx = np.zeros(x_shape, dtype=grad.dtype)
    ni, ci, oi, oj = np.indices((n, c, oh, ow))
    di, dj = np.divmod(argmax, k)
    np.add.at(dx, (ni, ci, oi * s + di, oj * s + dj), grad)
    return dx


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape
    np.testing.assert_array_equal(_bits(a), _bits(b))


def assert_pool_output_equal(
    out: np.ndarray, ref: np.ndarray, x: np.ndarray, k: int, s: int
) -> None:
    """Bitwise, except the sign of a zero maximum over mixed-sign zeros."""
    windows = _ref_windows(x, k, s)
    zeros = windows == 0
    mixed = (
        (ref == 0)
        & (zeros & np.signbit(windows)).any(axis=(-1, -2))
        & (zeros & ~np.signbit(windows)).any(axis=(-1, -2))
    )
    assert out.shape == ref.shape
    np.testing.assert_array_equal(_bits(out)[~mixed], _bits(ref)[~mixed])
    assert (out[mixed] == 0).all()


# -- inputs ----------------------------------------------------------------------
#: Value palettes: continuous, tie-heavy small integers, signed zeros,
#: and a NaN-laced mix.
_PALETTES = {
    "normal": None,
    "ties": np.array([-1.0, 0.0, 1.0, 2.0]),
    "zeros": np.array([0.0, -0.0]),
    "zeros_ties": np.array([0.0, -0.0, 1.0, -1.0]),
    "nan": np.array([np.nan, 0.0, -0.0, 1.0, -2.0]),
}


def _values(rng: np.random.Generator, palette: str, shape) -> np.ndarray:
    choices = _PALETTES[palette]
    if choices is None:
        return rng.normal(size=shape)
    return rng.choice(choices, size=shape)


def _layout(x_nhwc: np.ndarray, layout: str) -> np.ndarray:
    """NCHW view of an ``(n, h, w, c)`` block in the requested memory order."""
    if layout == "contiguous":
        return np.ascontiguousarray(x_nhwc.transpose(0, 3, 1, 2))
    if layout == "transposed":  # conv-output-like: channels fastest
        return x_nhwc.transpose(0, 3, 1, 2)
    # Negative strides on both spatial axes.
    return x_nhwc.transpose(0, 3, 1, 2)[:, :, ::-1, ::-1]


cases = st.fixed_dictionaries(
    {
        "n": st.integers(1, 3),
        "c": st.integers(1, 3),
        "k": st.integers(1, 3),
        "extra_h": st.integers(0, 6),
        "extra_w": st.integers(0, 6),
        "palette": st.sampled_from(sorted(_PALETTES)),
        "layout": st.sampled_from(["contiguous", "transposed", "reversed"]),
        "training": st.booleans(),
        "seed": st.integers(0, 2**31 - 1),
    }
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=cases)
def test_forward_and_backward_bit_identical(case):
    k = s = case["k"]
    n, c = case["n"], case["c"]
    h, w = k + case["extra_h"], k + case["extra_w"]
    rng = np.random.default_rng(case["seed"])
    x = _layout(_values(rng, case["palette"], (n, h, w, c)), case["layout"])

    layer = MaxPool2D(k)
    layer.build((c, h, w))
    out = layer.forward(x, training=case["training"])
    ref_out, ref_argmax = reference_forward(x, k, s)
    assert_pool_output_equal(out, ref_out, x, k, s)

    grad = _values(rng, "zeros_ties" if case["seed"] % 2 else "normal", out.shape)
    dx = layer.backward(grad)
    assert_bitwise_equal(dx, reference_backward(x.shape, ref_argmax, grad, k, s))


def test_backward_after_inference_forward_routes_first_tie():
    """All-tied windows route to the first element, as ``argmax`` does."""
    layer = MaxPool2D(2)
    layer.build((1, 4, 4))
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 1, 1] = -0.0
    layer.forward(x, training=False)
    dx = layer.backward(np.full((1, 1, 2, 2), 3.0))
    expected = np.zeros((1, 1, 4, 4))
    expected[0, 0, ::2, ::2] = 3.0
    assert_bitwise_equal(dx, expected)


def test_negative_zero_gradient_lands_as_positive_zero():
    """``0.0 + (-0.0)`` is ``+0.0``: the routed pixel reads as ``add.at``'s sum."""
    layer = MaxPool2D(2)
    layer.build((1, 4, 4))
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    out = layer.forward(x)
    dx = layer.backward(np.full(out.shape, -0.0))
    assert not np.signbit(dx).any()


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("palette", sorted(_PALETTES))
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "reversed"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kept_output_backward_matches_add_at(k, layout, palette, training):
    """Every palette and layout, leftover rows and columns past the last
    window included, matches the ``add.at`` scatter."""
    rng = np.random.default_rng(10 * k)
    h, w = 3 * k + 1, 2 * k + 2
    x = _layout(_values(rng, palette, (3, h, w, 2)), layout)
    layer = MaxPool2D(k)
    layer.build((2, h, w))
    out = layer.forward(x, training=training)
    ref_out, ref_argmax = reference_forward(x, k, k)
    assert_pool_output_equal(out, ref_out, x, k, k)
    grad = _values(rng, "zeros_ties", out.shape)
    dx = layer.backward(grad)
    assert_bitwise_equal(dx, reference_backward(x.shape, ref_argmax, grad, k, k))
