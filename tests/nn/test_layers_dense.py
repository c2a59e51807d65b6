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

    def test_biases_start_at_zero(self, built_layer):
        assert built_layer.params["b"].tobytes() == np.zeros(3).tobytes()

    def test_repeat_build_keeps_parameters(self, built_layer):
        """A second build at the same shape draws nothing; another shape
        raises instead of silently reallocating."""
        before = {k: v.copy() for k, v in built_layer.params.items()}
        params = built_layer.params["W"]
        assert built_layer.build((5,), np.random.default_rng(1)) == (3,)
        assert built_layer.params["W"] is params
        for key, value in before.items():
            assert built_layer.params[key].tobytes() == value.tobytes()
        with pytest.raises(ShapeError):
            built_layer.build((6,), np.random.default_rng(1))


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
