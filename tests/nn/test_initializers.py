"""Unit tests for weight initializers."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.initializers import compute_fans, glorot_uniform, he_normal


class TestComputeFans:
    def test_dense_kernel(self):
        assert compute_fans((30, 20)) == (30, 20)

    def test_conv_kernel(self):
        # (out_ch, in_ch, kh, kw): fan_in = in_ch*kh*kw, fan_out = out_ch*kh*kw
        assert compute_fans((8, 3, 5, 5)) == (75, 200)

    def test_bias_vector(self):
        assert compute_fans((7,)) == (7, 7)

    def test_empty_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_fans(())


class TestKernelInitializers:
    def test_he_normal_std(self, rng):
        shape = (400, 300)
        out = he_normal(shape, rng)
        assert out.shape == shape
        assert abs(out.std() - math.sqrt(2.0 / shape[0])) < 0.01

    def test_he_normal_uses_conv_fan_in(self, rng):
        out = he_normal((64, 8, 5, 5), rng)
        assert abs(out.std() - math.sqrt(2.0 / (8 * 25))) < 0.01

    def test_glorot_uniform_is_bounded_and_centered(self, rng):
        shape = (300, 200)
        out = glorot_uniform(shape, rng)
        assert out.shape == shape
        assert abs(out.mean()) < 0.005
        limit = math.sqrt(6.0 / sum(shape))
        assert np.abs(out).max() <= limit
        assert np.abs(out).max() > 0.99 * limit

    @pytest.mark.parametrize("init", [he_normal, glorot_uniform])
    def test_deterministic_given_seed(self, init):
        a = init((5, 5), np.random.default_rng(9))
        b = init((5, 5), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)
