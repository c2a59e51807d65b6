"""Unit tests for activation functions (values + analytic derivatives)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.activations import ReLU, get_activation
from tests.nn.helpers import Tanh


def numeric_jacobian_diag(fn, x, eps=1e-6):
    """Diagonal of the Jacobian for elementwise activations."""
    return (fn.forward(x + eps) - fn.forward(x - eps)) / (2 * eps)


ELEMENTWISE = [ReLU(), Tanh()]


class TestForwardValues:
    def test_relu_clamps_negative(self):
        out = ReLU().forward(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 3.0])


class TestBackwardMatchesNumeric:
    @pytest.mark.parametrize("fn", ELEMENTWISE, ids=lambda f: f.name)
    def test_elementwise_derivative(self, fn, rng):
        # Avoid the ReLU kink at exactly 0.
        x = rng.normal(size=50)
        x[np.abs(x) < 1e-3] = 0.1
        y = fn.forward(x)
        grad = fn.backward(x, y, np.ones_like(x))
        np.testing.assert_allclose(grad, numeric_jacobian_diag(fn, x), atol=1e-5)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_activation("relu"), ReLU)

    def test_passthrough(self):
        fn = Tanh()
        assert get_activation(fn) is fn

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            get_activation("swish9000")
