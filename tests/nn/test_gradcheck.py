"""Whole-model gradient checking — validates the backprop engine
end-to-end, including conv/pool stacks and the skewed regularizer."""

import numpy as np

from repro.nn import (
    Activation,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Sequential,
    SkewedL2Regularizer,
)
from tests.nn.helpers import Tanh, check_gradients, numerical_gradient

TOL = 1e-4


def batch_for(model, n, n_classes, rng):
    x = rng.normal(size=(n,) + model.input_shape)
    y = np.eye(n_classes)[rng.integers(0, n_classes, n)]
    return x, y


class TestNumericalGradient:
    def test_quadratic(self):
        x = np.array([3.0, -2.0])
        grad = numerical_gradient(lambda: float(np.sum(x**2)), x)
        np.testing.assert_allclose(grad, [6.0, -4.0], atol=1e-5)


class TestModelGradients:
    def test_mlp(self, rng):
        model = Sequential([Dense(6), Activation(Tanh()), Dense(3)], seed=1).build((4,))
        x, y = batch_for(model, 4, 3, rng)
        errors = check_gradients(model, x, y)
        assert max(errors.values()) < TOL

    def test_mlp_with_skewed_regularizer(self, rng):
        model = Sequential([Dense(6), Activation(Tanh()), Dense(3)], seed=2).build((4,))
        model.set_regularizers(SkewedL2Regularizer(beta=-0.05, lambda1=0.1, lambda2=0.01))
        x, y = batch_for(model, 4, 3, rng)
        errors = check_gradients(model, x, y)
        assert max(errors.values()) < TOL

    def test_conv_pool_stack(self, rng):
        model = Sequential(
            [
                Conv2D(3, 3),
                Activation("relu"),
                MaxPool2D(2),
                Flatten(),
                Dense(3),
            ],
            seed=3,
        ).build((1, 6, 6))
        x, y = batch_for(model, 3, 3, rng)
        errors = check_gradients(model, x, y)
        assert max(errors.values()) < 1e-3  # relu kinks allow slightly more

    def test_pool_and_padding(self, rng):
        model = Sequential(
            [Conv2D(2, 3, padding=1), Activation(Tanh()), MaxPool2D(2), Flatten(), Dense(2)],
            seed=4,
        ).build((1, 4, 4))
        x, y = batch_for(model, 3, 2, rng)
        errors = check_gradients(model, x, y)
        assert max(errors.values()) < TOL
