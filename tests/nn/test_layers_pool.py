"""Unit tests for pooling layers."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.pool import AvgPool2D, MaxPool2D


class TestValidation:
    def test_rejects_bad_pool_size(self):
        with pytest.raises(ConfigurationError):
            MaxPool2D(0)

    def test_rejects_flat_input(self, rng):
        with pytest.raises(ShapeError):
            MaxPool2D(2).build((10,), rng)

    def test_rejects_window_larger_than_input(self, rng):
        with pytest.raises(ShapeError):
            MaxPool2D(4).build((1, 3, 3), rng)

    def test_windows_tile(self):
        layer = MaxPool2D(3)
        assert layer.build((2, 7, 9)) == (2, 2, 3)


class TestMaxPool:
    def test_forward_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer = MaxPool2D(2)
        layer.build((1, 4, 4))
        out = layer.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_backward_routes_to_argmax(self):
        layer = MaxPool2D(2)
        layer.build((1, 4, 4))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((1, 1, 4, 4))
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3)]:
            expected[0, 0, i, j] = 1.0
        np.testing.assert_array_equal(dx, expected)

    def test_gradient_numeric(self, rng):
        layer = MaxPool2D(2)
        layer.build((2, 4, 4))
        x = rng.normal(size=(2, 2, 4, 4))
        out = layer.forward(x)
        dx = layer.backward(2.0 * out)
        eps = 1e-6
        numeric = np.zeros_like(x)
        it = np.nditer(x, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = x[idx]
            x[idx] = orig + eps
            plus = float(np.sum(layer.forward(x) ** 2))
            x[idx] = orig - eps
            minus = float(np.sum(layer.forward(x) ** 2))
            x[idx] = orig
            numeric[idx] = (plus - minus) / (2 * eps)
            it.iternext()
        np.testing.assert_allclose(dx, numeric, atol=1e-4)


class TestAvgPool:
    def test_forward_values(self):
        layer = AvgPool2D(2)
        layer.build((1, 4, 4))
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_backward_spreads_uniformly(self):
        layer = AvgPool2D(2)
        layer.build((1, 4, 4))
        x = np.zeros((1, 1, 4, 4))
        layer.forward(x)
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        np.testing.assert_allclose(dx, np.full((1, 1, 4, 4), 0.25))

    def test_mean_preserved(self, rng):
        layer = AvgPool2D(2)
        layer.build((3, 6, 6))
        x = rng.normal(size=(2, 3, 6, 6))
        out = layer.forward(x)
        np.testing.assert_allclose(out.mean(), x.mean(), atol=1e-12)

    def test_leftover_rows_and_columns_take_no_part(self):
        layer = AvgPool2D(2)
        layer.build((1, 5, 5))
        x = np.arange(25, dtype=float).reshape(1, 1, 5, 5)
        np.testing.assert_allclose(layer.forward(x)[0, 0], [[3, 5], [13, 15]])
        dx = layer.backward(np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(dx[0, 0, :4, :4], np.full((4, 4), 0.25))
        assert not dx[0, 0, 4].any() and not dx[0, 0, :, 4].any()
