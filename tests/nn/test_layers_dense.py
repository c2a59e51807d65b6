"""Unit tests for the Dense layer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn.layers.dense import Dense


@pytest.fixture()
def built_layer(rng):
    layer = Dense(3)
    layer.build((5,), rng)
    return layer


class TestConstruction:
    def test_rejects_zero_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)

    def test_build_allocates_params(self, built_layer):
        assert built_layer.params["W"].shape == (5, 3)
        assert built_layer.params["b"].shape == (3,)

    def test_output_shape(self, built_layer):
        assert built_layer.output_shape() == (3,)

    def test_rejects_image_input(self, rng):
        with pytest.raises(ShapeError):
            Dense(3).build((1, 8, 8), rng)

    def test_regularized_is_weights_only(self, built_layer):
        assert built_layer.regularized == ["W"]

    def test_no_bias_variant(self, rng):
        layer = Dense(3, use_bias=False)
        layer.build((5,), rng)
        assert "b" not in layer.params


class TestForwardBackward:
    def test_forward_is_affine(self, built_layer, rng):
        x = rng.normal(size=(4, 5))
        expected = x @ built_layer.params["W"] + built_layer.params["b"]
        np.testing.assert_allclose(built_layer.forward(x), expected)

    def test_backward_input_gradient(self, built_layer, rng):
        x = rng.normal(size=(4, 5))
        built_layer.forward(x)
        upstream = rng.normal(size=(4, 3))
        dx = built_layer.backward(upstream)
        np.testing.assert_allclose(dx, upstream @ built_layer.params["W"].T)

    def test_backward_weight_gradient(self, built_layer, rng):
        x = rng.normal(size=(4, 5))
        built_layer.forward(x)
        upstream = rng.normal(size=(4, 3))
        built_layer.backward(upstream)
        np.testing.assert_allclose(built_layer.grads["W"], x.T @ upstream)
        np.testing.assert_allclose(built_layer.grads["b"], upstream.sum(axis=0))
