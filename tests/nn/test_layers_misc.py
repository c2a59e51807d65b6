"""Unit tests for the Flatten and Activation layers."""

import numpy as np

from repro.nn.layers.activation import Activation
from repro.nn.layers.reshape import Flatten
from tests.nn.helpers import Tanh


class TestFlatten:
    def test_forward_shape(self, rng):
        layer = Flatten()
        layer.build((3, 4, 5))
        x = rng.normal(size=(2, 3, 4, 5))
        assert layer.forward(x).shape == (2, 60)
        assert layer.output_shape() == (60,)

    def test_backward_restores_shape(self, rng):
        layer = Flatten()
        layer.build((3, 4, 5))
        x = rng.normal(size=(2, 3, 4, 5))
        y = layer.forward(x)
        dx = layer.backward(y)
        np.testing.assert_array_equal(dx, x)


class TestActivationLayer:
    def test_wraps_by_name(self, rng):
        layer = Activation("relu")
        layer.build((4,))
        x = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(layer.forward(x), np.maximum(x, 0))

    def test_backward(self, rng):
        layer = Activation(Tanh())
        layer.build((4,))
        x = rng.normal(size=(3, 4))
        y = layer.forward(x)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, 1 - y * y)
