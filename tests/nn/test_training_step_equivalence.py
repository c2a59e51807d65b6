"""Bit-identity battery: one training step against its reference formulation.

A training step is ``Sequential.compute_gradients`` followed by the
optimizer.  Each kernel it runs is checked *bitwise* (signed zeros and
NaN included) against the formulation it replaced:

* ``col2im`` against the slice-add loop (one strided add per kernel
  offset into a zero buffer), float64 and float32, random and shipped
  conv shapes, strides 1–3, padding 0–2;
* ``im2col`` with padding, which no longer calls ``np.pad``;
* ``Adam.step`` (one pass over the concatenated parameters) against the
  expression-per-line body run one parameter at a time, on the LeNet and
  VGG parameter lists, over many steps with ``lr`` changing and one
  ``reset()``;
* every layer's ``grads`` after ``compute_gradients`` against a
  backward chain that runs ``backward`` on every layer, first included,
  while the first layer's ``col2im`` is never run.

``HYPOTHESIS_PROFILE=smoke`` shrinks the example count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Activation, Adam, Conv2D, Dense, Flatten, MaxPool2D, Sequential
from repro.nn.layers import conv as conv_module
from repro.nn.layers.conv import col2im, im2col
from repro.nn.regularizers import SkewedL2Regularizer
from repro.training.networks import build_lenet, build_vggnet
from tests.nn.helpers import NormalInit, Tanh
from tests.nn.test_im2col_equivalence import (
    _SHIPPED_CONVS,
    assert_same_array,
    reference_im2col,
)

MAX_EXAMPLES = 25 if os.environ.get("HYPOTHESIS_PROFILE") == "smoke" else 200


# -- col2im ------------------------------------------------------------------------
def reference_col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """One strided slice add per kernel offset, in ``(i, j)`` order."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j, :, :]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


#: Value palettes: continuous, signed zeros, and a NaN-laced mix.
_PALETTES = {
    "normal": None,
    "zeros": np.array([0.0, -0.0]),
    "nan": np.array([np.nan, 0.0, -0.0, 1.0, -2.0]),
}


def _values(rng: np.random.Generator, palette: str, shape, dtype=np.float64):
    choices = _PALETTES[palette]
    if choices is None:
        return rng.normal(size=shape).astype(dtype)
    return rng.choice(choices, size=shape).astype(dtype)


def _cols_for(rng, palette, dtype, n, c, h, w, k, s, p) -> np.ndarray:
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    return _values(rng, palette, (n * oh * ow, c * k * k), dtype)


col2im_cases = st.fixed_dictionaries(
    {
        "n": st.integers(1, 3),
        "c": st.integers(1, 3),
        "k": st.integers(1, 4),
        "stride": st.integers(1, 3),
        "padding": st.integers(0, 2),
        "extra_h": st.integers(0, 6),
        "extra_w": st.integers(0, 6),
        "dtype": st.sampled_from(["float64", "float32"]),
        "palette": st.sampled_from(sorted(_PALETTES)),
        "seed": st.integers(0, 2**31 - 1),
    }
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(case=col2im_cases)
def test_col2im_bit_identical(case):
    k, s, p = case["k"], case["stride"], case["padding"]
    h = max(1, k - 2 * p) + case["extra_h"]
    w = max(1, k - 2 * p) + case["extra_w"]
    rng = np.random.default_rng(case["seed"])
    shape = (case["n"], case["c"], h, w)
    cols = _cols_for(rng, case["palette"], case["dtype"], *shape, k, s, p)
    expected = reference_col2im(cols, shape, k, k, s, p)
    assert_same_array(col2im(cols, shape, k, k, s, p), expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("palette", sorted(_PALETTES))
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("c, h, w, k, padding", _SHIPPED_CONVS)
def test_col2im_shipped_shapes_bit_identical(
    c, h, w, k, padding, stride, palette, dtype
):
    """Every shipped conv shape, a single image included, at strides 1–3."""
    rng = np.random.default_rng(c * h + k)
    for n in (1, 4):
        shape = (n, c, h, w)
        cols = _cols_for(rng, palette, dtype, *shape, k, stride, padding)
        got = col2im(cols, shape, k, k, stride, padding)
        assert_same_array(got, reference_col2im(cols, shape, k, k, stride, padding))


def test_col2im_sums_from_positive_zero():
    """A pixel whose contributions are all ``-0.0`` reads ``+0.0``."""
    cols = np.full((4 * 4, 9), -0.0)
    out = col2im(cols, (1, 1, 4, 4), 3, 3, 1, 1)
    assert not np.signbit(out).any()


# -- im2col padding -----------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("padding", [1, 2])
def test_im2col_pads_without_np_pad(monkeypatch, padding, dtype):
    rng = np.random.default_rng(padding)
    x = _values(rng, "nan", (2, 6, 5, 3), dtype).transpose(0, 3, 1, 2)
    expected = reference_im2col(x, 3, 3, 1, padding)
    calls: List[int] = []
    real_pad = np.pad

    def counting_pad(*args, **kwargs):
        calls.append(1)
        return real_pad(*args, **kwargs)

    monkeypatch.setattr(np, "pad", counting_pad)
    got = im2col(x, 3, 3, 1, padding)
    assert calls == []
    assert_same_array(got, expected)


# -- Adam ------------------------------------------------------------------------------
def reference_adam_step(self: Adam, pairs) -> None:
    """Adam's step as it ran before: the expression-per-line update, one
    parameter at a time, with moments keyed by the parameter's ``id``."""
    self.iterations += 1
    t = max(1, self.iterations)
    for param, grad in pairs:
        state = self._state.setdefault(id(param), {})
        if "m" not in state:
            state["m"] = np.zeros_like(param)
            state["v"] = np.zeros_like(param)
        m, v = state["m"], state["v"]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class ReferenceAdam(Adam):
    step = reference_adam_step


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


#: name -> a shipped network, whose parameters the Adam battery steps.
ADAM_PARAMS = {
    "lenet": lambda: build_lenet(seed=0),
    "vggnet": lambda: build_vggnet(width=6, seed=0),
}


@pytest.mark.parametrize("net", sorted(ADAM_PARAMS))
@pytest.mark.parametrize("palette", sorted(_PALETTES))
def test_adam_step_bit_identical(palette, net):
    rng = np.random.default_rng(5)
    model = ADAM_PARAMS[net]()
    shapes = [p.shape for layer in model.layers for p in layer.params.values()]
    start = [rng.normal(size=s) for s in shapes]
    fast_params = [p.copy() for p in start]
    ref_params = [p.copy() for p in start]
    fast = Adam(0.01, beta1=0.8, beta2=0.99)
    ref = ReferenceAdam(0.01, beta1=0.8, beta2=0.99)
    for step in range(24):
        if step == 12:
            fast.reset()
            ref.reset()
        if step % 5 == 4:
            fast.lr = ref.lr = float(rng.uniform(1e-4, 0.05))
        grads = [_values(rng, palette, s) for s in shapes]
        kept = [g.copy() for g in grads]
        fast.step(list(zip(fast_params, grads)))
        ref.step(list(zip(ref_params, grads)))
        assert fast.iterations == ref.iterations == step % 12 + 1
        assert all(_bits_equal(g, k) for g, k in zip(grads, kept))  # read only
        for fp, rp in zip(fast_params, ref_params):
            assert _bits_equal(fp, rp), step
        for key in ("m", "v"):
            want = np.concatenate([ref._state[id(p)][key].ravel() for p in ref_params])
            assert _bits_equal(fast._state[key], want), (step, key)


# -- the whole step --------------------------------------------------------------------
def reference_backward(self: Sequential, grad: np.ndarray) -> np.ndarray:
    """The backward chain that also runs the first layer's ``backward``."""
    for layer in reversed(self.layers):
        grad = layer.backward(grad)
    return grad


def _dense_first(seed: int) -> Sequential:
    layers = [Dense(6), Activation(Tanh()), Dense(3)]
    return Sequential(layers, optimizer=Adam(0.01), seed=seed).build((5,))


def _pool_first(seed: int) -> Sequential:
    layers = [MaxPool2D(2), Conv2D(3, 2, padding=1), Activation("relu")]
    layers += [Flatten(), Dense(4)]
    return Sequential(layers, optimizer=Adam(0.01), seed=seed).build((2, 6, 6))


#: name -> (seeded factory, sample shape, classes).
MODELS = {
    "lenet": (lambda seed: build_lenet(seed=seed), (1, 12, 12), 10),
    "vggnet": (lambda seed: build_vggnet(width=4, seed=seed), (1, 16, 16), 20),
    "dense-first": (_dense_first, (5,), 3),
    "pool-first": (_pool_first, (2, 6, 6), 4),
}


def _batch(name: str, n: int, seed: int):
    _, shape, classes = MODELS[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n,) + shape)
    y = np.eye(classes)[rng.integers(0, classes, size=n)]
    return x, y


@contextmanager
def counting_col2im():
    """Record the ``x_shape`` of every ``col2im`` call inside the block."""
    shapes: List[Tuple[int, ...]] = []
    real = conv_module.col2im

    def counted(cols, x_shape, *args, **kwargs):
        shapes.append(tuple(x_shape))
        return real(cols, x_shape, *args, **kwargs)

    conv_module.col2im = counted
    try:
        yield shapes
    finally:
        conv_module.col2im = real


@pytest.mark.parametrize("name", sorted(MODELS))
def test_compute_gradients_bit_identical(name, monkeypatch):
    factory = MODELS[name][0]
    fast, ref = factory(3), factory(3)
    skew = SkewedL2Regularizer(beta=0.05, lambda1=3e-3, lambda2=1e-4)
    fast.set_regularizers(skew)
    ref.set_regularizers(skew)
    for seed, n in ((0, 5), (1, 1)):
        x, y = _batch(name, n, seed)
        with counting_col2im() as shapes:
            cost = fast.compute_gradients(x, y)
        # Every conv but a first-layer one scatters its input gradient.
        convs = [i for i, layer in enumerate(fast.layers) if isinstance(layer, Conv2D)]
        assert len(shapes) == len(convs) - (convs[:1] == [0])
        if convs[:1] == [0]:
            assert (n,) + MODELS[name][1] not in shapes
        with monkeypatch.context() as patch:
            patch.setattr(Sequential, "backward", reference_backward)
            ref_cost = ref.compute_gradients(x, y)
        assert cost == ref_cost
        for layer, ref_layer in zip(fast.layers, ref.layers):
            for key, grad in layer.grads.items():
                assert _bits_equal(grad, ref_layer.grads[key]), (name, layer, key)


@pytest.mark.parametrize("name", ["lenet", "vggnet"])
def test_training_steps_bit_identical(name, monkeypatch):
    """Several optimizer steps leave bitwise-equal weights."""
    factory = MODELS[name][0]
    fast, ref = factory(4), factory(4)
    batches = [_batch(name, 6, seed) for seed in range(4)]
    for x, y in batches:
        fast.train_batch(x, y)
    with monkeypatch.context() as patch:
        patch.setattr(Sequential, "backward", reference_backward)
        patch.setattr(Adam, "step", reference_adam_step)
        for x, y in batches:
            ref.train_batch(x, y)
    for got, want in zip(fast.get_weights(), ref.get_weights()):
        for key in want:
            assert _bits_equal(got[key], want[key])


def test_backward_returns_none():
    model = MODELS["lenet"][0](0)
    x, y = _batch("lenet", 2, 0)
    pred = model.forward(x, training=True)
    assert model.backward(model.loss.gradient(pred, y)) is None


@pytest.mark.parametrize(
    "factory, shape",
    [
        (lambda: Conv2D(3, 3, stride=2, padding=1, bias_init=NormalInit()), (2, 7, 6)),
        (lambda: Dense(4, bias_init=NormalInit()), (5,)),
    ],
)
def test_param_grads_match_backward(factory, shape):
    rng = np.random.default_rng(9)
    fast, ref = factory(), factory()
    fast.build(shape, rng=1)
    ref.build(shape, rng=1)
    x = rng.normal(size=(3,) + shape)
    grad = rng.normal(size=fast.forward(x, training=True).shape)
    ref.forward(x, training=True)
    assert fast.param_grads(grad) is None
    ref.backward(grad)
    for key in ref.grads:
        assert _bits_equal(fast.grads[key], ref.grads[key])
