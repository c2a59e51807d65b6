"""Unit tests for Conv2D and the im2col machinery."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.gradcheck import numerical_gradient
from repro.nn.layers.conv import Conv2D, col2im, im2col


def reference_conv(x, w, b, stride=1, padding=0):
    """Naive direct convolution for cross-checking."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for oi in range(oc):
            for i in range(oh):
                for j in range(ow):
                    patch = x[ni, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[ni, oi, i, j] = np.sum(patch * w[oi]) + b[oi]
    return out


class TestIm2Col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols = im2col(x, 3, 3)
        assert cols.shape == (2 * 4 * 4, 3 * 3 * 3)

    def test_roundtrip_counts_overlaps(self, rng):
        """col2im(im2col(x)) multiplies each pixel by its window count."""
        x = np.ones((1, 1, 4, 4))
        cols = im2col(x, 2, 2)
        back = col2im(cols, x.shape, 2, 2)
        # Corner pixels appear in 1 window, edges 2, interior 4.
        assert back[0, 0, 0, 0] == 1
        assert back[0, 0, 0, 1] == 2
        assert back[0, 0, 1, 1] == 4

    def test_stride_and_padding(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        cols = im2col(x, 3, 3, stride=2, padding=1)
        oh = (5 + 2 - 3) // 2 + 1
        assert cols.shape == (oh * oh, 2 * 9)


class TestConv2D:
    def test_validation(self):
        for bad in (dict(filters=0, kernel_size=3), dict(filters=2, kernel_size=0),
                    dict(filters=2, kernel_size=3, stride=0),
                    dict(filters=2, kernel_size=3, padding=-1)):
            with pytest.raises(ConfigurationError):
                Conv2D(**bad)

    def test_rejects_flat_input(self, rng):
        with pytest.raises(ShapeError):
            Conv2D(2, 3).build((10,), rng)

    def test_rejects_kernel_larger_than_input(self, rng):
        with pytest.raises(ShapeError):
            Conv2D(2, 7).build((1, 5, 5), rng)

    def test_rejects_input_it_was_not_built_for(self, rng):
        """A batch of another image shape must not be re-laid silently."""
        layer = Conv2D(8, 5)
        layer.build((1, 12, 12), rng)
        assert layer.forward(rng.normal(size=(2, 1, 12, 12))).shape == (2, 8, 8, 8)
        for shape in ((2, 1, 8, 20), (2, 2, 12, 12), (2, 1, 12, 13)):
            with pytest.raises(ShapeError):
                layer.forward(rng.normal(size=shape))

    def test_output_shape_with_padding(self, rng):
        layer = Conv2D(4, 3, padding=1)
        layer.build((2, 8, 8), rng)
        assert layer.output_shape() == (4, 8, 8)

    def test_forward_matches_reference(self, rng):
        layer = Conv2D(3, 3, stride=2, padding=1)
        layer.build((2, 7, 7), rng)
        x = rng.normal(size=(2, 2, 7, 7))
        expected = reference_conv(x, layer.params["W"], layer.params["b"], 2, 1)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-10)

    def test_backward_gradients_numeric(self, rng):
        layer = Conv2D(2, 3)
        layer.build((1, 5, 5), rng)
        x = rng.normal(size=(2, 1, 5, 5))

        def loss():
            return float(np.sum(layer.forward(x) ** 2))

        out = layer.forward(x)
        dx = layer.backward(2.0 * out)
        analytic_w = layer.grads["W"].copy()

        eps = 1e-6
        w = layer.params["W"]
        numeric_w = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            plus = loss()
            w[idx] = orig - eps
            minus = loss()
            w[idx] = orig
            numeric_w[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        np.testing.assert_allclose(analytic_w, numeric_w, atol=1e-4)

        numeric_x = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = x[idx]
            x[idx] = orig + eps
            plus = loss()
            x[idx] = orig - eps
            minus = loss()
            x[idx] = orig
            numeric_x[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        np.testing.assert_allclose(dx, numeric_x, atol=1e-4)

    def test_regularized_weights_only(self, rng):
        layer = Conv2D(2, 3)
        layer.build((1, 5, 5), rng)
        assert layer.regularized == ["W"]


# (channels, size, filters, kernel, stride, padding)
GEOMETRIES = [
    (1, 5, 2, 3, 1, 0),
    (2, 6, 3, 3, 2, 0),
    (2, 7, 2, 3, 2, 1),
    (3, 5, 2, 1, 1, 0),
    (1, 6, 2, 2, 2, 0),
    (2, 5, 2, 5, 1, 2),
    (1, 8, 3, 3, 3, 1),
    (2, 4, 1, 4, 1, 0),
]


def _geometry_id(geometry):
    c, size, f, k, s, p = geometry
    return f"c{c}-{size}x{size}-f{f}-k{k}-s{s}-p{p}"


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=_geometry_id)
class TestGeometries:
    """Forward and backward across kernel, stride and padding choices;
    strided and padded backward passes go through ``col2im``, where
    overlap bookkeeping errors would show."""

    @staticmethod
    def _layer(geometry, rng):
        c, size, f, k, s, p = geometry
        layer = Conv2D(f, k, stride=s, padding=p, bias_init="glorot_uniform")
        layer.build((c, size, size), rng)
        return layer, rng.normal(size=(2, c, size, size))

    def test_forward_matches_reference(self, geometry, rng):
        layer, x = self._layer(geometry, rng)
        _, _, _, _, s, p = geometry
        expected = reference_conv(x, layer.params["W"], layer.params["b"], s, p)
        np.testing.assert_allclose(layer.forward(x), expected, atol=1e-10)

    def test_backward_matches_numeric(self, geometry, rng):
        layer, x = self._layer(geometry, rng)
        upstream = rng.normal(size=(2,) + layer.output_shape())

        def loss():
            return float(np.sum(layer.forward(x) * upstream))

        layer.forward(x)
        dx = layer.backward(upstream)
        np.testing.assert_allclose(dx, numerical_gradient(loss, x), atol=1e-6)
        for name in ("W", "b"):
            analytic = layer.grads[name].copy()
            numeric = numerical_gradient(loss, layer.params[name])
            np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_param_grads_match_backward(self, geometry, rng):
        """The first layer skips its input gradient; the parameter
        gradients it keeps must be the ones a full backward computes."""
        layer, x = self._layer(geometry, rng)
        upstream = rng.normal(size=(2,) + layer.output_shape())
        layer.forward(x)
        layer.backward(upstream)
        full = {name: g.copy() for name, g in layer.grads.items()}
        layer.forward(x)
        layer.param_grads(upstream)
        for name, g in full.items():
            assert layer.grads[name].tobytes() == g.tobytes()
