"""Unit tests for weight initializers."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.initializers import (
    GlorotNormal,
    GlorotUniform,
    HeNormal,
    HeUniform,
    LeCunNormal,
    ZerosInit,
    compute_fans,
    get_initializer,
)


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


class TestBasicInitializers:
    def test_zeros(self):
        out = ZerosInit()((3, 4))
        assert out.shape == (3, 4)
        assert np.all(out == 0.0)


class TestVarianceScaling:
    @pytest.mark.parametrize(
        "cls,expected_std_fn",
        [
            (GlorotNormal, lambda fi, fo: math.sqrt(2.0 / (fi + fo))),
            (HeNormal, lambda fi, fo: math.sqrt(2.0 / fi)),
            (LeCunNormal, lambda fi, fo: math.sqrt(1.0 / fi)),
        ],
    )
    def test_normal_family_std(self, cls, expected_std_fn, rng):
        shape = (400, 300)
        out = cls()(shape, rng)
        assert abs(out.std() - expected_std_fn(*shape)) < 0.01

    @pytest.mark.parametrize("cls", [GlorotUniform, HeUniform])
    def test_uniform_family_is_bounded_and_centered(self, cls, rng):
        out = cls()((300, 200), rng)
        assert abs(out.mean()) < 0.005
        assert out.min() >= -1.0 and out.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = HeNormal()((5, 5), np.random.default_rng(9))
        b = HeNormal()((5, 5), np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestRegistry:
    def test_lookup_by_name(self):
        assert isinstance(get_initializer("he_normal"), HeNormal)
        assert isinstance(get_initializer("GLOROT_UNIFORM"), GlorotUniform)

    def test_passthrough(self):
        init = HeNormal()
        assert get_initializer(init) is init

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown initializer"):
            get_initializer("nope")
