"""Bit-identity battery: ``Conv2D`` on an unfolding against ``Conv2D`` on images.

``Conv2D.unfold(x)`` returns ``im2col``'s matrix of the images ``x`` as
a read-only ``(n, oh*ow, c*k*k)`` array, and ``Conv2D.forward`` takes
it, or any row slice of it, in place of the images.  The lifetime loop
feeds it the tuning set's unfolding (minibatches ``u[idx]``, and
``predict``'s 256-sample chunks), and the aging-aware mapper each conv
layer's selection prefix.  Every result must equal the image path
*bitwise*, and both must equal the formulas ``Conv2D`` ran on images
before unfolding existed: the forward output (a C-contiguous NCHW
array), the GEMM operand ``_cols`` (strides and contiguity too, because
BLAS rounds differently per operand layout; one image's matrix is
column-major), the weight/bias gradients and ``dx``.
The cases are random shapes (batch 1 included, padding 0–2) and every
conv shape of the shipped LeNet and VGG networks.

``HYPOTHESIS_PROFILE=smoke`` shrinks the example count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError
from repro.nn.layers import Dense, Flatten, MaxPool2D
from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.training import build_lenet, build_vggnet
from tests.nn.helpers import randomize_bias
from tests.nn.test_im2col_equivalence import (
    MAX_EXAMPLES,
    _draw_input,
    _values,
    assert_same_array,
    cases,
)


def _conv(filters, k, padding, input_shape, seed) -> Conv2D:
    layer = Conv2D(filters, k, padding=padding)
    layer.build(input_shape, rng=seed)
    randomize_bias(layer, seed)
    return layer


def reference_pass(layer, x, grad) -> dict:
    """``Conv2D`` as it ran before unfolding: ``im2col`` on the images,
    then the same GEMMs and ``col2im``."""
    k, f = layer.kernel_size, layer.filters
    cols = im2col(x, k, k, layer.padding)
    w_mat = layer.params["W"].reshape(f, -1)
    out = cols @ w_mat.T
    out += layer.params["b"]
    _, oh, ow = layer.output_shape()
    out = out.reshape(len(x), oh, ow, f).transpose(0, 3, 1, 2)
    grad_mat = grad.transpose(0, 2, 3, 1).reshape(-1, f)
    return {
        "out": np.ascontiguousarray(out),
        "cols": cols,
        "dx": col2im(grad_mat @ w_mat, x.shape, k, k, layer.padding),
        "W": (grad_mat.T @ cols).reshape(layer.params["W"].shape),
        "b": grad_mat.sum(axis=0),
    }


def assert_same_pass(layer, x, u, rng) -> None:
    """On the images ``x`` and on their unfolding ``u``: forward, ``_cols``,
    ``backward`` and ``param_grads`` bitwise equal to :func:`reference_pass`."""
    grad = _values(rng, "normal", (len(x), *layer.output_shape()), np.float64)
    want = reference_pass(layer, x, grad)
    for batch in (x, u):
        assert_same_array(layer.forward(batch, training=True), want["out"])
        assert_same_array(layer._cols, want["cols"])
        assert_same_array(layer.backward(grad), want["dx"])
        for name in ("W", "b"):
            assert_same_array(layer.grads[name], want[name])
            layer.grads[name][...] = np.nan
        layer.forward(batch)
        layer.param_grads(grad)
        for name in ("W", "b"):
            assert_same_array(layer.grads[name], want[name])


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=cases)
def test_forward_on_unfolding_bit_identical(case):
    rng, x = _draw_input(case)
    k, p = case["k"], case["padding"]
    layer = _conv(case["filters"], k, p, x.shape[1:], case["seed"])
    u = layer.unfold(x)
    _, oh, ow = layer.output_shape()
    assert u.shape == (case["n"], oh * ow, x.shape[1] * k * k)
    assert not u.flags.writeable
    assert layer._cols is None  # unfolding leaves the layer alone
    assert_same_array(u.reshape(-1, u.shape[2]), im2col(x, k, k, p))
    assert_same_pass(layer, x, u, rng)


rows = st.fixed_dictionaries(
    {
        "n": st.integers(1, 9),
        "c": st.integers(1, 3),
        "k": st.integers(1, 4),
        "padding": st.integers(0, 2),
        "extra": st.integers(0, 5),
        "pick": st.sampled_from(["one", "choice", "slice", "reversed"]),
        "seed": st.integers(0, 2**31 - 1),
    }
)


def _rows(rng, n: int, pick: str):
    """Row selections as the tuner (``choice``) and ``predict`` (``slice``) make them."""
    if pick == "one":
        return [int(rng.integers(n))]
    if pick == "choice":
        return rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
    if pick == "slice":
        start = int(rng.integers(n))
        return slice(start, start + int(rng.integers(1, n + 1)))
    return slice(None, None, -1)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=rows)
def test_row_selection_of_unfolding_bit_identical(case):
    rng = np.random.default_rng(case["seed"])
    k, p = case["k"], case["padding"]
    side = max(1, k - 2 * p) + case["extra"]
    x = rng.normal(size=(case["n"], case["c"], side, side))
    layer = _conv(2, k, p, x.shape[1:], case["seed"])
    u = layer.unfold(x)
    idx = _rows(rng, case["n"], case["pick"])
    assert_same_pass(layer, x[idx], u[idx], rng)


@pytest.mark.parametrize("rows", [slice(None, None, -1), slice(1, None, 2), [3, 0]])
def test_strided_rows_of_one_window_unfolding(rows):
    """With one window per image, a strided row slice of the unfolding
    reshapes to a non-contiguous view; ``_cols`` must still be C-ordered."""
    layer = _conv(3, 3, 0, (2, 3, 3), seed=0)
    x = np.random.default_rng(0).normal(size=(5, 2, 3, 3))
    assert layer.output_shape() == (3, 1, 1)
    assert_same_pass(layer, x[rows], layer.unfold(x)[rows], np.random.default_rng(1))


#: ``(c, h, w, k, padding)`` of every conv layer of ``build_lenet`` and of
#: ``build_vggnet`` at the widths the presets use (8 full, 6 fast).
_SHIPPED_CONVS = [(1, 12, 12, 5, 0), (8, 4, 4, 3, 0)] + [
    shape
    for width in (8, 6)
    for shape in [
        (1, 16, 16, 3, 1),
        (width, 16, 16, 3, 1),
        (width, 8, 8, 3, 1),
        (2 * width, 8, 8, 3, 1),
        (2 * width, 4, 4, 3, 1),
    ]
]


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("c, h, w, k, padding", sorted(set(_SHIPPED_CONVS)))
def test_shipped_conv_shapes_bit_identical(n, c, h, w, k, padding, layout):
    """A C-contiguous input, as every conv after layer 0 sees (layers
    hand on C-contiguous arrays), and a channels-last view transposed to
    NCHW, as a caller may pass."""
    rng = np.random.default_rng(n * c * h)
    x = rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    if layout == "contiguous":
        x = np.ascontiguousarray(x)
    layer = _conv(4, k, padding, (c, h, w), n)
    u = layer.unfold(x)
    assert_same_pass(layer, x, u, rng)
    idx = rng.choice(n, size=max(1, n // 2), replace=False)
    assert_same_pass(layer, x[idx], u[idx], rng)


@pytest.mark.parametrize(
    "build, input_shape",
    [
        (lambda: build_lenet(seed=3), (1, 12, 12)),
        (lambda: build_vggnet(width=6, seed=3), (1, 16, 16)),
    ],
    ids=["lenet", "vggnet"],
)
@pytest.mark.parametrize("n", [255, 256, 257, 600])
def test_predict_chunks_of_unfolding_bit_identical(build, input_shape, n):
    """``predict`` slices the unfolding at its 256-sample chunk boundaries."""
    model = build()
    x = np.random.default_rng(n).normal(size=(n, *input_shape))
    u = model.layers[0].unfold(x)
    assert_same_array(model.predict(u), model.predict(x))
    for start, stop in [(0, 256), (200, 460), (256, 512), (n - 1, n)]:
        assert_same_array(model.forward(u[start:stop]), model.forward(x[start:stop]))
    # The mapper's prefix of an inner conv layer, unfolded through it.
    inner = next(i for i, l in enumerate(model.layers) if i and isinstance(l, Conv2D))
    prefix = model.predict(u, stop=inner)
    assert_same_array(prefix, model.predict(x, stop=inner))
    assert_same_array(
        model.predict(model.layers[inner].unfold(prefix), start=inner),
        model.predict(x),
    )


def test_unfolding_is_read_only():
    layer = Conv2D(2, 3)
    layer.build((2, 5, 5), rng=0)
    x = np.random.default_rng(0).normal(size=(4, 2, 5, 5))
    u = layer.unfold(x)
    with pytest.raises(ValueError):
        u[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        u[1:3][...] = 0.0


def test_unfolding_passes_through_unfold():
    layer = Conv2D(2, 3, padding=1)
    layer.build((2, 5, 5), rng=0)
    u = layer.unfold(np.zeros((3, 2, 5, 5)))
    assert layer.unfold(u) is u


@pytest.mark.parametrize("shape", [(3, 10, 18), (3, 9, 19), (3, 9, 17), (3, 18, 9), (1, 1, 18)])
def test_wrong_unfolding_shape_raises(shape):
    layer = Conv2D(2, 3)
    layer.build((2, 5, 5), rng=0)
    assert layer.unfold(np.zeros((3, 2, 5, 5))).shape == (3, 9, 18)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros(shape))
    with pytest.raises(ShapeError):
        layer.unfold(np.zeros(shape))


def test_wrong_image_shape_still_raises():
    layer = Conv2D(2, 3)
    layer.build((2, 5, 5), rng=0)
    with pytest.raises(ShapeError):
        layer.unfold(np.zeros((3, 2, 5, 6)))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((3, 1, 5, 5)))


@pytest.mark.parametrize(
    "layer, input_shape",
    [(Dense(3), (4,)), (MaxPool2D(2), (2, 4, 4)), (Flatten(), (2, 4, 4))],
    ids=["dense", "pool", "flatten"],
)
def test_other_layers_unfold_to_their_input(layer, input_shape):
    """A Dense-first model (``blobs-mini``) passes its tuning set unchanged."""
    layer.build(input_shape, rng=0)
    x = np.zeros((5, *input_shape))
    assert layer.unfold(x) is x
